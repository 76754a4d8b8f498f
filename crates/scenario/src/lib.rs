//! Adversary-strategy and response-policy scenario axes.
//!
//! The paper's threat model is a single attacker-intensity knob plus a
//! collusion flag. This crate widens that into two orthogonal axes shared
//! by **every** evaluation backend (exact CTMC, SPN token-game simulation,
//! protocol DES, mobility DES):
//!
//! - [`AttackerStrategy`]: how the adversary modulates capture and
//!   collusion over time and state — `burst` (on/off intensity phases),
//!   `stealth` (low-rate under-the-radar captures that also evade the host
//!   IDS), `targeted` (capture and collusion pressure concentrated where
//!   the adversary already has a voting foothold).
//! - [`ResponsePolicy`]: what the system does on a detection — `evict`
//!   (the paper's behavior), `quarantine-and-rejoin` (temporary isolation
//!   with false-release dynamics), `rekey-throttle` (rate-limited rekeying
//!   with queued evictions and a stale-key exposure window).
//!
//! The crate is dependency-free on purpose: it holds only the scenario
//! *types*, their validation, and the closed-form modulation helpers, so
//! the analytic generator and the executable simulators provably apply the
//! same formulas. Consistency across backends is by construction, not by
//! re-derivation.

/// How the adversary schedules captures and colludes in votes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackerStrategy {
    /// The paper's stationary attacker (no modulation).
    Baseline,
    /// Two-phase on/off attacker: capture intensity is multiplied by
    /// `multiplier` while the attacker is in its active phase. Phase
    /// switching is an exponential race (`on_rate` to enter the active
    /// phase, `off_rate` to leave it); the attacker starts dormant.
    Burst {
        /// Rate (1/s) of entering the active phase.
        on_rate: f64,
        /// Rate (1/s) of leaving the active phase.
        off_rate: f64,
        /// Capture-rate multiplier while active (≥ 1).
        multiplier: f64,
    },
    /// Low-and-slow attacker: captures at `rate_factor` of the baseline
    /// intensity, but each compromised node evades the host IDS with
    /// probability `evasion` (raising the effective per-host
    /// false-negative probability `p1` to `p1 + (1 − p1)·evasion`, which
    /// both slows voted detection and makes undetected data leaks more
    /// likely).
    Stealth {
        /// Capture-rate factor in `(0, 1]`.
        rate_factor: f64,
        /// Host-IDS evasion probability in `[0, 1)`.
        evasion: f64,
    },
    /// Voter-directed attacker: capture intensity and vote collusion both
    /// grow with the adversary's current voting foothold `U / (T + U)`,
    /// scaled by `focus` in `[0, 1]` (see
    /// [`targeted_capture_multiplier`] and
    /// [`targeted_effective_collusion`]).
    Targeted {
        /// Foothold coupling strength in `[0, 1]`.
        focus: f64,
    },
}

/// What the system does when the voting IDS convicts a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResponsePolicy {
    /// Permanent eviction with an immediate group rekey (the paper's
    /// behavior).
    Evict,
    /// Temporary isolation: a convicted node is keyed out (one rekey) and
    /// held in quarantine; review completes at `release_rate` per
    /// quarantined node. A quarantined good node always rejoins (one
    /// rejoin rekey); a quarantined compromised node is falsely released
    /// back into the group with probability `false_release_prob`
    /// (rejoin rekey) and permanently evicted otherwise (no extra rekey).
    QuarantineRejoin {
        /// Per-node review completion rate (1/s).
        release_rate: f64,
        /// Probability a compromised node passes review in `[0, 1)`.
        false_release_prob: f64,
    },
    /// Rate-limited rekeying: convictions still remove the node from the
    /// group immediately, but the excluding rekey is queued and served at
    /// most `max_rate` per second (one rekey per service). While a
    /// conviction is pending its stale key still decrypts group traffic,
    /// leaving a data-leak exposure window.
    RekeyThrottle {
        /// Maximum rekey service rate (1/s).
        max_rate: f64,
    },
}

/// One point on the scenario grid: an attacker strategy paired with a
/// response policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Adversary behavior.
    pub attacker: AttackerStrategy,
    /// System response to convictions.
    pub response: ResponsePolicy,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

impl ScenarioConfig {
    /// The paper's scenario: stationary attacker, immediate eviction.
    pub fn baseline() -> Self {
        Self {
            attacker: AttackerStrategy::Baseline,
            response: ResponsePolicy::Evict,
        }
    }

    /// Validate parameter ranges, naming the offending field.
    ///
    /// # Errors
    /// Returns a human-readable message naming the field and its valid
    /// range.
    pub fn validate(&self) -> Result<(), String> {
        match self.attacker {
            AttackerStrategy::Baseline => {}
            AttackerStrategy::Burst {
                on_rate,
                off_rate,
                multiplier,
            } => {
                require_positive_finite("scenario.attacker.on_rate", on_rate)?;
                require_positive_finite("scenario.attacker.off_rate", off_rate)?;
                if !multiplier.is_finite() || multiplier < 1.0 {
                    return Err(format!(
                        "scenario.attacker.multiplier must be finite and >= 1, got {multiplier}"
                    ));
                }
            }
            AttackerStrategy::Stealth {
                rate_factor,
                evasion,
            } => {
                if !rate_factor.is_finite() || rate_factor <= 0.0 || rate_factor > 1.0 {
                    return Err(format!(
                        "scenario.attacker.rate_factor must lie in (0, 1], got {rate_factor}"
                    ));
                }
                if !evasion.is_finite() || !(0.0..1.0).contains(&evasion) {
                    return Err(format!(
                        "scenario.attacker.evasion must lie in [0, 1), got {evasion}"
                    ));
                }
            }
            AttackerStrategy::Targeted { focus } => {
                if !focus.is_finite() || !(0.0..=1.0).contains(&focus) {
                    return Err(format!(
                        "scenario.attacker.focus must lie in [0, 1], got {focus}"
                    ));
                }
            }
        }
        match self.response {
            ResponsePolicy::Evict => {}
            ResponsePolicy::QuarantineRejoin {
                release_rate,
                false_release_prob,
            } => {
                require_positive_finite("scenario.response.release_rate", release_rate)?;
                if !false_release_prob.is_finite() || !(0.0..1.0).contains(&false_release_prob) {
                    return Err(format!(
                        "scenario.response.false_release_prob must lie in [0, 1), got {false_release_prob}"
                    ));
                }
            }
            ResponsePolicy::RekeyThrottle { max_rate } => {
                require_positive_finite("scenario.response.max_rate", max_rate)?;
            }
        }
        Ok(())
    }
}

fn require_positive_finite(field: &str, v: f64) -> Result<(), String> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(format!("{field} must be finite and > 0, got {v}"))
    }
}

// --- shared modulation formulas -------------------------------------------
//
// Every backend — the exact CTMC generator, the SPN token-game simulator,
// and both discrete-event simulators — calls these same functions, so the
// analytic and executed scenario dynamics cannot drift apart.

/// Stealth attackers raise the effective host-IDS false-negative
/// probability from `p1` to `p1 + (1 − p1)·evasion`.
pub fn stealth_effective_p1(p1: f64, evasion: f64) -> f64 {
    p1 + (1.0 - p1) * evasion
}

/// Targeted capture multiplier `1 + focus · U/(T+U)`: the more voting
/// foothold the adversary holds, the harder it pushes for the next
/// capture. Identity when the group is empty or `focus` is zero.
pub fn targeted_capture_multiplier(focus: f64, trusted: u32, undetected: u32) -> f64 {
    let live = trusted + undetected;
    if live == 0 {
        1.0
    } else {
        1.0 + focus * undetected as f64 / live as f64
    }
}

/// Targeted effective collusion probability
/// `clamp(q + (1 − q)·focus·U/(T+U), 0, 1)`: compromised voters coordinate
/// more reliably as the adversary's foothold grows.
pub fn targeted_effective_collusion(q: f64, focus: f64, trusted: u32, undetected: u32) -> f64 {
    let live = trusted + undetected;
    if live == 0 {
        return q;
    }
    let boosted = q + (1.0 - q) * focus * undetected as f64 / live as f64;
    boosted.clamp(0.0, 1.0)
}

/// Burst capture multiplier for the current attacker phase.
pub fn burst_capture_multiplier(multiplier: f64, active: bool) -> f64 {
    if active {
        multiplier
    } else {
        1.0
    }
}

impl AttackerStrategy {
    /// Host-IDS evasion probability (`stealth` only).
    pub fn evasion(&self) -> f64 {
        match self {
            AttackerStrategy::Stealth { evasion, .. } => *evasion,
            _ => 0.0,
        }
    }

    /// The foothold coupling strength (`targeted` only).
    pub fn focus(&self) -> f64 {
        match self {
            AttackerStrategy::Targeted { focus } => *focus,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_baseline() {
        assert_eq!(ScenarioConfig::default(), ScenarioConfig::baseline());
    }

    #[test]
    fn validation_names_the_field() {
        let bad = ScenarioConfig {
            attacker: AttackerStrategy::Burst {
                on_rate: -1.0,
                off_rate: 1.0,
                multiplier: 2.0,
            },
            response: ResponsePolicy::Evict,
        };
        let msg = bad.validate().unwrap_err();
        assert!(msg.contains("scenario.attacker.on_rate"), "{msg}");

        let bad = ScenarioConfig {
            attacker: AttackerStrategy::Stealth {
                rate_factor: 1.5,
                evasion: 0.0,
            },
            response: ResponsePolicy::Evict,
        };
        assert!(bad.validate().unwrap_err().contains("rate_factor"));

        let bad = ScenarioConfig {
            attacker: AttackerStrategy::Baseline,
            response: ResponsePolicy::QuarantineRejoin {
                release_rate: 0.01,
                false_release_prob: 1.0,
            },
        };
        assert!(bad.validate().unwrap_err().contains("false_release_prob"));

        let bad = ScenarioConfig {
            attacker: AttackerStrategy::Baseline,
            response: ResponsePolicy::RekeyThrottle { max_rate: f64::NAN },
        };
        assert!(bad.validate().unwrap_err().contains("max_rate"));
    }

    #[test]
    fn valid_configs_pass() {
        for s in [
            ScenarioConfig::baseline(),
            ScenarioConfig {
                attacker: AttackerStrategy::Burst {
                    on_rate: 1.0 / 3600.0,
                    off_rate: 1.0 / 1800.0,
                    multiplier: 4.0,
                },
                response: ResponsePolicy::QuarantineRejoin {
                    release_rate: 1.0 / 600.0,
                    false_release_prob: 0.1,
                },
            },
            ScenarioConfig {
                attacker: AttackerStrategy::Stealth {
                    rate_factor: 0.5,
                    evasion: 0.3,
                },
                response: ResponsePolicy::RekeyThrottle {
                    max_rate: 1.0 / 120.0,
                },
            },
        ] {
            s.validate().unwrap();
        }
    }

    #[test]
    fn modulation_formulas_hit_boundaries() {
        assert_eq!(stealth_effective_p1(0.01, 0.0), 0.01);
        assert!((stealth_effective_p1(0.0, 0.4) - 0.4).abs() < 1e-12);
        assert_eq!(targeted_capture_multiplier(0.5, 0, 0), 1.0);
        assert!((targeted_capture_multiplier(1.0, 0, 4) - 2.0).abs() < 1e-12);
        assert!((targeted_capture_multiplier(0.5, 3, 1) - 1.125).abs() < 1e-12);
        assert_eq!(targeted_effective_collusion(0.25, 0.5, 0, 0), 0.25);
        assert!((targeted_effective_collusion(0.0, 1.0, 0, 3) - 1.0).abs() < 1e-12);
        let q = targeted_effective_collusion(0.2, 0.5, 2, 2);
        assert!((q - (0.2 + 0.8 * 0.25)).abs() < 1e-12);
        assert_eq!(burst_capture_multiplier(4.0, false), 1.0);
        assert_eq!(burst_capture_multiplier(4.0, true), 4.0);
    }

    #[test]
    fn accessors_default_to_identity() {
        let b = AttackerStrategy::Baseline;
        assert_eq!(b.evasion(), 0.0);
        assert_eq!(b.focus(), 0.0);
        let s = AttackerStrategy::Stealth {
            rate_factor: 0.5,
            evasion: 0.25,
        };
        assert_eq!(s.evasion(), 0.25);
    }
}
