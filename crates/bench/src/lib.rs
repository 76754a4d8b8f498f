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
use std::io::Write;
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

    /// Write a CSV (`x,series1,series2,…`).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(f, "{}", self.x_label)?;
        for (label, _) in &self.series {
            write!(f, ",{label}")?;
        }
        writeln!(f)?;
        for (i, x) in self.x.iter().enumerate() {
            write!(f, "{x}")?;
            for (_, ys) in &self.series {
                write!(f, ",{}", ys[i])?;
            }
            writeln!(f)?;
        }
        f.flush()
    }

    /// Per-series x achieving the maximum y.
    pub fn argmax_per_series(&self) -> Vec<(String, f64)> {
        self.extremum_per_series(true)
    }

    /// Per-series x achieving the minimum y.
    pub fn argmin_per_series(&self) -> Vec<(String, f64)> {
        self.extremum_per_series(false)
    }

    fn extremum_per_series(&self, max: bool) -> Vec<(String, f64)> {
        self.series
            .iter()
            .map(|(label, ys)| {
                let idx = ys
                    .iter()
                    .enumerate()
                    .max_by(|a, b| {
                        let (x, y) = (*a.1, *b.1);
                        let ord = x.partial_cmp(&y).expect("no NaN in figures");
                        if max {
                            ord
                        } else {
                            ord.reverse()
                        }
                    })
                    .expect("non-empty series")
                    .0;
                (label.clone(), self.x[idx])
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
    let mut base = ScenarioSpec::paper_default(BackendKind::Exact);
    base.name = "fig".into();
    base.system = cfg.clone();
    let specs = series_axis(ScenarioGrid::new(base)).tids(grid).expand();
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
    // One template serves both the MTTSF probe (which scales the grid) and
    // every m series: the vote-participant count is rate-only, so all
    // evaluations share this single state-space exploration.
    let template = gcsids::metrics::ExactTemplate::new(cfg)?;
    let probe = template.evaluate(cfg)?;
    let horizon = 0.1 * probe.mttsf_seconds;
    let times: Vec<f64> = (0..=points)
        .map(|i| horizon * i as f64 / points as f64)
        .collect();

    let ms = SystemConfig::paper_m_grid();
    let series = ms
        .iter()
        .map(|&m| {
            let (_, survival) =
                template.evaluate_with_survival(&cfg.with_vote_participants(m), &times)?;
            Ok((format!("m={m}"), survival.expect("mission grid requested")))
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
        println!("optimal TIDS ({goal}) for {label}: {t:.0} s");
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
            ],
        };
        let s = t.render();
        assert!(s.contains("# T"));
        assert!(s.contains('a') && s.contains('b'));
        assert_eq!(
            t.argmax_per_series(),
            vec![("a".into(), 2.0), ("b".into(), 3.0)]
        );
        assert_eq!(
            t.argmin_per_series(),
            vec![("a".into(), 1.0), ("b".into(), 2.0)]
        );
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

    #[test]
    fn fig_runners_produce_full_tables() {
        // tiny system so this stays fast; full scale is exercised by bins
        let t2 = fig2(&tiny_cfg()).unwrap();
        assert_eq!(t2.series.len(), 4);
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
