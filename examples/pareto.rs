//! Security-vs-performance trade-off analysis: the design-space enumeration
//! and Pareto frontier behind the paper's closing recommendation ("select
//! the best intrusion detection interval to maximize MTTSF while satisfying
//! the Ĉtotal performance requirement").

use engine::{BackendKind, EngineError, Runner, ScenarioGrid, ScenarioSpec};
use gcsids::config::SystemConfig;

/// One evaluated design alternative.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Vote participants.
    pub m: u32,
    /// Base detection interval (s).
    pub t_ids: f64,
    /// Mean time to security failure (s).
    pub mttsf: f64,
    /// Time-averaged total communication cost (hop·bits/s).
    pub c_total: f64,
}

impl DesignPoint {
    /// True when `other` is at least as good on both objectives and
    /// strictly better on one (maximize MTTSF, minimize Ĉtotal).
    pub fn dominated_by(&self, other: &DesignPoint) -> bool {
        let better_mttsf = other.mttsf >= self.mttsf;
        let better_cost = other.c_total <= self.c_total;
        let strictly = other.mttsf > self.mttsf || other.c_total < self.c_total;
        better_mttsf && better_cost && strictly
    }
}

/// Evaluate the `(m, T_IDS)` design space of `cfg` on the exact backend,
/// in `m`-major order.
///
/// The whole grid is one [`Runner::run_batch`]: both axes are rate-only,
/// so every design shares one state-space exploration (explore once,
/// solve many).
///
/// # Errors
/// Returns the first evaluation failure.
pub fn design_space(
    cfg: &SystemConfig,
    ms: &[u32],
    tids_grid: &[f64],
) -> Result<Vec<DesignPoint>, EngineError> {
    let mut base = ScenarioSpec::paper_default(BackendKind::Exact);
    base.name = "design".into();
    base.system = cfg.clone();
    let specs = ScenarioGrid::new(base)
        .vote_participants(ms)
        .tids(tids_grid)
        .expand();
    let reports = Runner::new().run_batch(&specs)?;
    Ok(specs
        .iter()
        .zip(&reports)
        .map(|(spec, report)| DesignPoint {
            m: spec.system.vote_participants,
            t_ids: spec.system.detection.base_interval,
            mttsf: report.mttsf.value,
            c_total: report.c_total.value,
        })
        .collect())
}

/// Pareto-efficient subset (maximize MTTSF, minimize Ĉtotal), sorted by
/// increasing cost.
pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut front: Vec<DesignPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| p.dominated_by(q)))
        .cloned()
        .collect();
    front.sort_by(|a, b| a.c_total.partial_cmp(&b.c_total).expect("finite costs"));
    front
}

/// The cheapest design meeting an MTTSF floor, if any.
pub fn cheapest_meeting_mttsf(points: &[DesignPoint], min_mttsf: f64) -> Option<DesignPoint> {
    points
        .iter()
        .filter(|p| p.mttsf >= min_mttsf)
        .min_by(|a, b| a.c_total.partial_cmp(&b.c_total).expect("finite costs"))
        .cloned()
}

/// The most survivable design under a cost ceiling, if any.
pub fn best_mttsf_under_cost(points: &[DesignPoint], max_cost: f64) -> Option<DesignPoint> {
    points
        .iter()
        .filter(|p| p.c_total <= max_cost)
        .max_by(|a, b| a.mttsf.partial_cmp(&b.mttsf).expect("finite MTTSF"))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.node_count = 14;
        c
    }

    #[test]
    fn design_space_covers_grid() {
        let pts = design_space(&small(), &[3, 5], &[30.0, 120.0, 480.0]).unwrap();
        assert_eq!(pts.len(), 6);
        assert!(pts.iter().all(|p| p.mttsf > 0.0));
        assert_eq!((pts[0].m, pts[0].t_ids), (3, 30.0));
        assert_eq!((pts[5].m, pts[5].t_ids), (5, 480.0));
    }

    #[test]
    fn front_is_mutually_nondominated_and_sorted() {
        let pts = design_space(&small(), &[3, 5, 7], &[15.0, 60.0, 240.0, 600.0]).unwrap();
        let front = pareto_front(&pts);
        assert!(!front.is_empty());
        assert!(front.len() <= pts.len());
        for a in &front {
            for b in &front {
                assert!(!a.dominated_by(b) || std::ptr::eq(a, b));
            }
        }
        for w in front.windows(2) {
            assert!(w[0].c_total <= w[1].c_total);
            // along a sorted front, more cost must buy more survivability
            assert!(w[0].mttsf <= w[1].mttsf);
        }
    }

    #[test]
    fn constrained_selection() {
        let pts = design_space(&small(), &[3, 5], &[15.0, 60.0, 240.0]).unwrap();
        let best_mttsf = pts.iter().map(|p| p.mttsf).fold(f64::MIN, f64::max);
        // floor just below the best: must pick something
        let pick = cheapest_meeting_mttsf(&pts, best_mttsf * 0.999).unwrap();
        assert!(pick.mttsf >= best_mttsf * 0.999);
        // impossible floor: none
        assert!(cheapest_meeting_mttsf(&pts, best_mttsf * 10.0).is_none());
        // generous ceiling: the most survivable overall
        let under = best_mttsf_under_cost(&pts, f64::INFINITY).unwrap();
        assert!((under.mttsf - best_mttsf).abs() < 1e-9);
        // impossible ceiling: none
        assert!(best_mttsf_under_cost(&pts, 0.0).is_none());
    }

    #[test]
    fn domination_is_irreflexive() {
        let pts = design_space(&small(), &[3], &[60.0]).unwrap();
        assert!(!pts[0].dominated_by(&pts[0]));
    }
}
