//! Shared machinery for the figure-regeneration harnesses.
//!
//! Each of the paper's evaluation figures (2–5) has a runner here that
//! produces a [`FigureTable`]: the same x-grid and series the paper plots.
//! The `fig2 … fig5` binaries print the table and write a CSV under
//! `results/`. Timing lives in the separate `perfbench` package
//! (`crates/bench/perfbench`), which drives the same engine from spec JSON
//! to report JSON.
//!
//! All figure runners are thin adapters over [`engine::Runner`]: they
//! expand a [`engine::ScenarioGrid`] over the paper's axes, run the batch
//! (one state-space exploration for the whole figure — explore once, solve
//! many), and reshape the [`engine::RunReport`]s into table rows.

use engine::{BackendKind, EngineError, RunReport, Runner, ScenarioGrid, ScenarioSpec};
use gcsids::config::SystemConfig;
use ids::functions::RateShape;
use std::path::Path;

/// A figure reproduced as rows of numbers.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Figure title.
    pub title: String,
    /// Meaning of the x values.
    pub x_label: String,
    /// Meaning of the y values.
    pub y_label: String,
    /// The x grid (TIDS values).
    pub x: Vec<f64>,
    /// Labelled series, each aligned with `x`.
    pub series: Vec<(String, Vec<f64>)>,
}

impl FigureTable {
    /// Render as an aligned text table (the shape the paper reports).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!("# y: {}\n", self.y_label));
        out.push_str(&format!("{:>12}", self.x_label));
        for (label, _) in &self.series {
            out.push_str(&format!("{label:>16}"));
        }
        out.push('\n');
        for (i, x) in self.x.iter().enumerate() {
            out.push_str(&format!("{x:>12.0}"));
            for (_, ys) in &self.series {
                out.push_str(&format!("{:>16.4e}", ys[i]));
            }
            out.push('\n');
        }
        out
    }

    /// The CSV text (`x,series1,series2,…`). Numbers print in their
    /// shortest round-trip form, so the text pins every bit.
    pub fn csv(&self) -> String {
        let mut out = self.x_label.clone();
        for (label, _) in &self.series {
            out.push_str(&format!(",{label}"));
        }
        out.push('\n');
        for (i, x) in self.x.iter().enumerate() {
            out.push_str(&format!("{x}"));
            for (_, ys) in &self.series {
                out.push_str(&format!(",{}", ys[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Write [`FigureTable::csv`] to `path`, creating its directory.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.csv())
    }

    /// Per-series x achieving the maximum y, skipping NaN values; `None`
    /// for an empty or all-NaN series. Ties go to the last such x.
    pub fn argmax_per_series(&self) -> Vec<(String, Option<f64>)> {
        self.extremum_per_series(true)
    }

    /// Per-series x achieving the minimum y, skipping NaN values; `None`
    /// for an empty or all-NaN series. Ties go to the last such x.
    pub fn argmin_per_series(&self) -> Vec<(String, Option<f64>)> {
        self.extremum_per_series(false)
    }

    fn extremum_per_series(&self, max: bool) -> Vec<(String, Option<f64>)> {
        self.series
            .iter()
            .map(|(label, ys)| {
                let best = ys
                    .iter()
                    .zip(&self.x)
                    .filter(|(y, _)| !y.is_nan())
                    .max_by(|a, b| {
                        let ord = a.0.total_cmp(b.0);
                        if max {
                            ord
                        } else {
                            ord.reverse()
                        }
                    })
                    .map(|(_, &x)| x);
                (label.clone(), best)
            })
            .collect()
    }
}

/// Which report metric a figure plots.
#[derive(Debug, Clone, Copy)]
enum Metric {
    Mttsf,
    CostRate,
}

impl Metric {
    fn extract(self, r: &RunReport) -> f64 {
        match self {
            Metric::Mttsf => r.mttsf.value,
            Metric::CostRate => r.c_total.value,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Metric::Mttsf => "MTTSF (s)",
            Metric::CostRate => "C_total (hop·bits/s)",
        }
    }
}

/// An exact-backend spec evaluating `cfg`.
fn exact_spec(name: &str, cfg: &SystemConfig) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
    spec.name = name.into();
    spec.system = cfg.clone();
    spec
}

/// Run a `series × TIDS` grid through the engine and reshape the reports
/// into a table: the outer axis produces one labelled series each, the
/// inner axis is the shared TIDS grid. The whole figure shares a single
/// state-space exploration inside [`Runner::run_batch`].
fn figure_via_engine(
    title: &str,
    cfg: &SystemConfig,
    grid: &[f64],
    metric: Metric,
    series_axis: impl Fn(ScenarioGrid) -> ScenarioGrid,
    series_labels: Vec<String>,
) -> Result<FigureTable, EngineError> {
    let specs = series_axis(ScenarioGrid::new(exact_spec("fig", cfg)))
        .tids(grid)
        .expand();
    debug_assert_eq!(specs.len(), series_labels.len() * grid.len());
    let reports = Runner::new().run_batch(&specs)?;
    let series = series_labels
        .into_iter()
        .enumerate()
        .map(|(i, label)| {
            let ys = reports[i * grid.len()..(i + 1) * grid.len()]
                .iter()
                .map(|r| metric.extract(r))
                .collect();
            (label, ys)
        })
        .collect();
    Ok(FigureTable {
        title: title.into(),
        x_label: "TIDS_s".into(),
        y_label: metric.label().into(),
        x: grid.to_vec(),
        series,
    })
}

fn by_m(
    title: &str,
    cfg: &SystemConfig,
    grid: &[f64],
    metric: Metric,
) -> Result<FigureTable, EngineError> {
    let ms = SystemConfig::paper_m_grid();
    figure_via_engine(
        title,
        cfg,
        grid,
        metric,
        |g| g.vote_participants(ms),
        ms.iter().map(|m| format!("m={m}")).collect(),
    )
}

fn by_shape(
    title: &str,
    cfg: &SystemConfig,
    grid: &[f64],
    metric: Metric,
) -> Result<FigureTable, EngineError> {
    figure_via_engine(
        title,
        cfg,
        grid,
        metric,
        |g| g.detection_shapes(&RateShape::all()),
        RateShape::all()
            .iter()
            .map(|s| format!("{} detection", s.name()))
            .collect(),
    )
}

/// Figure 2: MTTSF vs TIDS for m ∈ {3, 5, 7, 9} (linear attacker/detection).
///
/// # Errors
/// Propagates evaluation failures.
pub fn fig2(cfg: &SystemConfig) -> Result<FigureTable, EngineError> {
    by_m(
        "Figure 2: effect of m on MTTSF and optimal TIDS",
        cfg,
        SystemConfig::paper_tids_grid(),
        Metric::Mttsf,
    )
}

/// Figure 3: Ĉtotal vs TIDS for m ∈ {3, 5, 7, 9} (the paper's Fig. 3 x-axis
/// starts at 30 s).
///
/// # Errors
/// Propagates evaluation failures.
pub fn fig3(cfg: &SystemConfig) -> Result<FigureTable, EngineError> {
    by_m(
        "Figure 3: effect of m on C_total and optimal TIDS",
        cfg,
        &SystemConfig::paper_tids_grid()[2..], // 30 … 1200 s
        Metric::CostRate,
    )
}

/// Figure 4: MTTSF vs TIDS for the three detection shapes (linear attacker,
/// m = 5).
///
/// # Errors
/// Propagates evaluation failures.
pub fn fig4(cfg: &SystemConfig) -> Result<FigureTable, EngineError> {
    by_shape(
        "Figure 4: effect of TIDS on MTTSF per detection function (linear attacker, m=5)",
        cfg,
        SystemConfig::paper_tids_grid(),
        Metric::Mttsf,
    )
}

/// Figure 5: Ĉtotal vs TIDS for the three detection shapes (the paper's
/// Fig. 5 x-axis starts at 15 s).
///
/// # Errors
/// Propagates evaluation failures.
pub fn fig5(cfg: &SystemConfig) -> Result<FigureTable, EngineError> {
    by_shape(
        "Figure 5: effect of TIDS on C_total per detection function (linear attacker, m=5)",
        cfg,
        &SystemConfig::paper_tids_grid()[1..], // 15 … 1200 s
        Metric::CostRate,
    )
}

/// Mission-survivability figure: exact `P[no security failure by t]` per
/// vote-participant count `m`, on a mission grid scaled to the base
/// configuration's MTTSF (so the curves always span the planning-relevant
/// band regardless of parameterization). One state-space exploration
/// serves all `m` series via the batched runner, and each curve is one
/// uniformization sweep.
///
/// The horizon is 0.1 × MTTSF — the hours-to-days regime where mission
/// planning happens, and where uniformization (cost ∝ q·t_max) stays
/// cheap at paper scale; push the factor up only with profiling
/// (perfbench's `mission` workload times the sweep).
///
/// # Errors
/// Propagates evaluation failures.
pub fn fig_survival(cfg: &SystemConfig, points: usize) -> Result<FigureTable, EngineError> {
    // One runner's template cache serves both the MTTSF probe (which
    // scales the grid) and every m series: the vote-participant count is
    // rate-only, so all evaluations share one state-space exploration.
    let runner = Runner::new();
    let base = exact_spec("fig_survival", cfg);
    let horizon = 0.1 * runner.run_cached(&base)?.mttsf.value;
    let times: Vec<f64> = (0..=points)
        .map(|i| horizon * i as f64 / points as f64)
        .collect();

    let ms = SystemConfig::paper_m_grid();
    let specs = ScenarioGrid::new(base.with_mission_times(&times))
        .vote_participants(ms)
        .expand();
    let series = ms
        .iter()
        .zip(runner.run_batch(&specs)?)
        .map(|(m, report)| {
            let curve = report.survival.ok_or_else(|| {
                EngineError::InvalidSpec(format!(
                    "{}: report has no survival curve",
                    report.scenario
                ))
            })?;
            Ok((
                format!("m={m}"),
                curve.iter().map(|(_, s)| s.value).collect(),
            ))
        })
        .collect::<Result<Vec<(String, Vec<f64>)>, EngineError>>()?;
    Ok(FigureTable {
        title: "Mission survivability: P[survive t] by vote participants m".into(),
        x_label: "t (s)".into(),
        y_label: "P[no security failure by t] (exact, uniformization)".into(),
        x: times,
        series,
    })
}

/// Default output directory for CSVs.
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(std::env::var("RESULTS_DIR").unwrap_or_else(|_| "results".into()))
}

/// Print a table, write its CSV, and report per-series optima.
///
/// # Errors
/// Propagates I/O failures (evaluation failures abort earlier).
pub fn emit(table: &FigureTable, csv_name: &str, maximize: bool) -> std::io::Result<()> {
    println!("{}", table.render());
    let optima = if maximize {
        table.argmax_per_series()
    } else {
        table.argmin_per_series()
    };
    let goal = if maximize { "max MTTSF" } else { "min C_total" };
    for (label, t) in optima {
        match t {
            Some(t) => println!("optimal TIDS ({goal}) for {label}: {t:.0} s"),
            None => println!("no optimum ({goal}) for {label}: no non-NaN value"),
        }
    }
    let path = results_dir().join(csv_name);
    table.write_csv(&path)?;
    println!("\ncsv written: {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.node_count = 10;
        c.vote_participants = 3;
        c
    }

    #[test]
    fn table_render_and_extrema() {
        let t = FigureTable {
            title: "T".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            x: vec![1.0, 2.0, 3.0],
            series: vec![
                ("a".into(), vec![5.0, 9.0, 7.0]),
                ("b".into(), vec![3.0, 2.0, 4.0]),
                // NaN values are skipped, not ordered
                ("c".into(), vec![f64::NAN, 4.0, 6.0]),
            ],
        };
        let s = t.render();
        assert!(s.contains("# T"));
        assert!(s.contains('a') && s.contains('b'));
        assert_eq!(
            t.argmax_per_series(),
            vec![
                ("a".into(), Some(2.0)),
                ("b".into(), Some(3.0)),
                ("c".into(), Some(3.0))
            ]
        );
        assert_eq!(
            t.argmin_per_series(),
            vec![
                ("a".into(), Some(1.0)),
                ("b".into(), Some(2.0)),
                ("c".into(), Some(2.0))
            ]
        );
    }

    #[test]
    fn empty_series_has_no_optimum() {
        let t = FigureTable {
            title: "T".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            x: vec![1.0, 2.0],
            series: vec![
                ("empty".into(), Vec::new()),
                ("all-nan".into(), vec![f64::NAN, f64::NAN]),
            ],
        };
        let none = vec![("empty".into(), None), ("all-nan".into(), None)];
        assert_eq!(t.argmax_per_series(), none);
        assert_eq!(t.argmin_per_series(), none);
    }

    #[test]
    fn csv_roundtrip() {
        let t = FigureTable {
            title: "T".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            x: vec![1.0, 2.0],
            series: vec![("a".into(), vec![5.0, 9.0])],
        };
        let dir = std::env::temp_dir().join("gcsids_bench_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("x,a"));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn labels(t: &FigureTable) -> Vec<String> {
        t.series.iter().map(|(label, _)| label.clone()).collect()
    }

    #[test]
    fn series_by_m_are_labelled() {
        let t2 = fig2(&tiny_cfg()).unwrap();
        assert_eq!(labels(&t2), ["m=3", "m=5", "m=7", "m=9"]);
        assert!(t2.series.iter().all(|(_, ys)| ys.len() == t2.x.len()));
    }

    #[test]
    fn series_by_shape_cover_all_three() {
        let t4 = fig4(&tiny_cfg()).unwrap();
        assert_eq!(
            labels(&t4),
            [
                "logarithmic detection",
                "linear detection",
                "polynomial detection"
            ]
        );
        assert!(t4.series.iter().all(|(_, ys)| ys.len() == t4.x.len()));
    }

    #[test]
    fn fig_runners_produce_full_tables() {
        // tiny system so this stays fast; full scale is exercised by bins
        let t2 = fig2(&tiny_cfg()).unwrap();
        assert_eq!(t2.x.len(), 9);
        let t4 = fig4(&tiny_cfg()).unwrap();
        assert_eq!(t4.series.len(), 3);
        let t3 = fig3(&tiny_cfg()).unwrap();
        assert_eq!(t3.x[0], 30.0);
        let t5 = fig5(&tiny_cfg()).unwrap();
        assert_eq!(t5.x[0], 15.0);
        assert!(t5.series.iter().all(|(_, ys)| ys.iter().all(|&y| y > 0.0)));
    }

    #[test]
    fn fig_survival_produces_proper_curves() {
        let t = fig_survival(&tiny_cfg(), 8).unwrap();
        assert_eq!(t.series.len(), 4);
        assert_eq!(t.x.len(), 9);
        assert_eq!(t.x[0], 0.0);
        for (label, ys) in &t.series {
            assert!((ys[0] - 1.0).abs() < 1e-9, "{label}: S(0) = {}", ys[0]);
            for w in ys.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "{label}: not monotone {ys:?}");
            }
        }
    }
}
