//! Error type shared across the SPN engine.

use std::fmt;

/// Errors produced while building, exploring, or solving an SPN.
#[derive(Debug, Clone, PartialEq)]
pub enum SpnError {
    /// The net definition is inconsistent (duplicate names, dangling ids…).
    InvalidModel(String),
    /// Reachability exploration exceeded the configured state cap.
    StateSpaceExceeded {
        /// The configured cap that was hit.
        cap: usize,
    },
    /// A rate function returned a negative or non-finite value.
    BadRate {
        /// Transition whose rate misbehaved.
        transition: String,
        /// The offending value.
        value: f64,
    },
    /// The requested analysis does not apply (e.g. MTTA of a chain with no
    /// reachable absorbing state).
    AnalysisUnavailable(String),
    /// A transient solve would take more uniformization steps than
    /// [`crate::ctmc::MAX_POISSON_DEPTH`]; refused before any allocation.
    TransientDepthExceeded {
        /// Poisson depth `q·t_max` the solve asked for.
        depth: f64,
        /// The cap it exceeds.
        cap: f64,
    },
    /// An iterative solver failed to converge.
    SolverDiverged {
        /// Iterations performed.
        iterations: usize,
        /// Final residual.
        residual: f64,
    },
}

impl fmt::Display for SpnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpnError::InvalidModel(msg) => write!(f, "invalid SPN model: {msg}"),
            SpnError::StateSpaceExceeded { cap } => {
                write!(f, "reachability exceeded state cap of {cap}")
            }
            SpnError::BadRate { transition, value } => {
                write!(f, "transition {transition} returned invalid rate {value}")
            }
            SpnError::AnalysisUnavailable(msg) => write!(f, "analysis unavailable: {msg}"),
            SpnError::TransientDepthExceeded { depth, cap } => write!(
                f,
                "transient solve needs Poisson depth q·t = {depth:e}, above the cap of {cap:e}"
            ),
            SpnError::SolverDiverged {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "solver diverged after {iterations} iterations (residual {residual})"
                )
            }
        }
    }
}

impl std::error::Error for SpnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SpnError::StateSpaceExceeded { cap: 10 };
        assert!(e.to_string().contains("10"));
        let e = SpnError::BadRate {
            transition: "T_CP".into(),
            value: -1.0,
        };
        assert!(e.to_string().contains("T_CP"));
        assert!(e.to_string().contains("-1"));
        let e = SpnError::InvalidModel("dup".into());
        assert!(e.to_string().contains("dup"));
        let e = SpnError::TransientDepthExceeded {
            depth: f64::INFINITY,
            cap: 1e7,
        };
        assert!(e.to_string().contains("inf"));
        assert!(e.to_string().contains("1e7"));
    }
}
